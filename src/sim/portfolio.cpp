#include "sim/portfolio.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"
#include "support/telemetry.h"

namespace fjs {
namespace {

// Process-wide mirrors of the per-runner PrefixReplayStats (the struct
// stays as the per-runner API; these aggregate across every runner and
// thread for the manifest telemetry block). Deterministic: hit/miss is a
// function of the mutation lineage, not of scheduling.
telemetry::Counter g_tm_prefix_hits{"portfolio.prefix_hits",
                                    telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_prefix_misses{"portfolio.prefix_misses",
                                      telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_prefix_arrivals_skipped{
    "portfolio.prefix_arrivals_skipped", telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_prefix_events_skipped{
    "portfolio.prefix_events_skipped", telemetry::Stability::kDeterministic};
// Depth of the checkpoint a hit resumed from, in skipped arrivals — the
// histogram form of mean_prefix_depth().
telemetry::Histogram g_tm_prefix_depth{"portfolio.prefix_depth",
                                       telemetry::Stability::kDeterministic};

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
                                  std::vector<Time>* starts_engine_order) {
  NullSource source;
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = prepared_.size()},
                workspace_.get());
  engine.preload_static(prepared_.records(), prepared_.staged());
  return engine.run_span(starts_engine_order);
}

void PortfolioRunner::enable_prefix_replay(std::size_t max_checkpoints,
                                           bool include_nonclairvoyant) {
  FJS_REQUIRE(max_checkpoints >= 1, "prefix replay: need >= 1 checkpoint");
  prefix_enabled_ = true;
  prefix_nonclairvoyant_ = include_nonclairvoyant;
  prefix_max_checkpoints_ = max_checkpoints;
}

void PortfolioRunner::disable_prefix_replay() {
  prefix_enabled_ = false;
  lineages_.clear();
}

PortfolioRunner::PrefixLineage& PortfolioRunner::lineage_for(
    const PortfolioEntry& entry) {
  const std::type_info& type = typeid(*entry.scheduler);
  ++lineage_clock_;
  PrefixLineage* lin = nullptr;
  for (auto& candidate : lineages_) {
    if (candidate->scheduler == entry.scheduler &&
        candidate->clairvoyant == entry.clairvoyant) {
      lin = candidate.get();
      break;
    }
  }
  if (lin != nullptr && *lin->type == type &&
      lin->name == entry.scheduler->name()) {
    lin->last_use = lineage_clock_;
    return *lin;
  }
  if (lin == nullptr) {
    if (lineages_.size() < kMaxPrefixLineages) {
      lineages_.push_back(std::make_unique<PrefixLineage>());
      lin = lineages_.back().get();
    } else {
      lin = std::min_element(lineages_.begin(), lineages_.end(),
                             [](const auto& a, const auto& b) {
                               return a->last_use < b->last_use;
                             })
                ->get();
    }
  }
  // A fresh lineage, the least recently used one (its scheduler was most
  // likely replaced), or the same address now holding a different
  // scheduler (the old object was destroyed and this one reuses its
  // storage). Any captured checkpoints encode another scheduler's
  // decisions, so retire them.
  lin->scheduler = entry.scheduler;
  lin->clairvoyant = entry.clairvoyant;
  lin->last_use = lineage_clock_;
  lin->type = &type;
  lin->name = entry.scheduler->name();
  lin->has_base = false;
  lin->series = EngineCheckpointSeries{};
  return *lin;
}

Time PortfolioRunner::prefix_span(const PortfolioEntry& entry,
                                  std::vector<Time>* starts_engine_order,
                                  Time earliest_affected_hint) {
  PrefixLineage& lin = lineage_for(entry);
  const std::size_t n = prepared_.size();
  lin.series.plan(n, prefix_max_checkpoints_);

  // Diff the prepared timeline against the lineage base: k_diff is the
  // first record whose job differs (engine ids always equal their index),
  // t_affected the earliest instant either version of that arrival
  // occupies. A checkpoint is reusable iff its whole captured prefix
  // precedes both: capture index <= k_diff and every processed event
  // strictly before t_affected (strict, so same-tick interleavings with
  // the changed arrival are never assumed).
  std::ptrdiff_t restore = -1;
  if (lin.has_base && lin.base_records.size() == n) {
    const auto& base = lin.base_records;
    const auto& fresh = prepared_.records();
    std::size_t k_diff = 0;
    while (k_diff < n &&
           base[k_diff].job.arrival == fresh[k_diff].job.arrival &&
           base[k_diff].job.deadline == fresh[k_diff].job.deadline &&
           base[k_diff].job.length == fresh[k_diff].job.length) {
      ++k_diff;
    }
    Time t_affected = earliest_affected_hint;
    if (k_diff < n) {
      t_affected = std::min(t_affected,
                            std::min(lin.base_staged[k_diff].time,
                                     prepared_.staged()[k_diff].time));
    }
    restore = lin.series.deepest_valid(k_diff, t_affected);
  } else {
    lin.series.invalidate_from(0);
  }

  NullSource source;
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = n},
                workspace_.get());
  if (restore >= 0) {
    const auto slot = static_cast<std::size_t>(restore);
    const EngineCheckpoint& ckpt = lin.series.slot(slot);
    ++prefix_stats_.hits;
    prefix_stats_.arrivals_skipped += ckpt.staged_head;
    prefix_stats_.events_skipped += ckpt.event_count;
    g_tm_prefix_hits.increment();
    g_tm_prefix_arrivals_skipped.add(ckpt.staged_head);
    g_tm_prefix_events_skipped.add(ckpt.event_count);
    g_tm_prefix_depth.record(ckpt.staged_head);
    engine.resume_static(ckpt, prepared_.records(), prepared_.staged());
    // Shallower slots stay valid for the new base (their prefixes predate
    // the change too); the deeper tail is recaptured during this run.
    lin.series.invalidate_from(slot + 1);
    lin.series.arm(slot + 1);
  } else {
    ++prefix_stats_.misses;
    g_tm_prefix_misses.increment();
    engine.preload_static(prepared_.records(), prepared_.staged());
    lin.series.invalidate_from(0);
    lin.series.arm(0);
  }
  engine.capture_checkpoints(&lin.series);
  const Time span = engine.run_span(starts_engine_order);
  // This run's timeline becomes the lineage base (copy-assigns reuse
  // capacity: no steady-state allocation).
  lin.base_records = prepared_.records();
  lin.base_staged = prepared_.staged();
  lin.has_base = true;
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
    spans_out[i] = prefix_eligible(entries[i])
                       ? prefix_span(entries[i], nullptr, Time::max())
                       : shared_span(entries[i], nullptr);
  }
  return true;
}

void PortfolioRunner::run_spans(InstanceView view,
                                std::span<const PortfolioEntry> entries,
                                std::vector<Time>& spans_out) {
  spans_out.resize(entries.size());
  prepared_.prepare(view);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    spans_out[i] = prefix_eligible(entries[i])
                       ? prefix_span(entries[i], nullptr, Time::max())
                       : shared_span(entries[i], nullptr);
  }
}

Time PortfolioRunner::run_span(InstanceView view, const PortfolioEntry& entry,
                               std::vector<Time>* starts_out,
                               Time earliest_affected_hint) {
  prepared_.prepare(view);
  const bool prefix = prefix_eligible(entry);
  if (starts_out == nullptr) {
    return prefix ? prefix_span(entry, nullptr, earliest_affected_hint)
                  : shared_span(entry, nullptr);
  }
  const Time span = prefix
                        ? prefix_span(entry, &starts_scratch_,
                                      earliest_affected_hint)
                        : shared_span(entry, &starts_scratch_);
  starts_out->resize(starts_scratch_.size());
  const std::vector<JobId>& original = prepared_.original_ids();
  for (std::size_t k = 0; k < starts_scratch_.size(); ++k) {
    (*starts_out)[original[k]] = starts_scratch_[k];
  }
  return span;
}

Time PortfolioRunner::run_span(const Instance& instance,
                               const PortfolioEntry& entry,
                               std::vector<Time>* starts_out,
                               const PortfolioOptions& options,
                               Time earliest_affected_hint) {
  if (options.adaptive()) {
    FJS_REQUIRE(starts_out == nullptr,
                "run_span: start capture requires the shared timeline");
    return adaptive_span(instance, entry, options);
  }
  prepared_.prepare(instance);
  const bool prefix = prefix_eligible(entry);
  if (starts_out == nullptr) {
    return prefix ? prefix_span(entry, nullptr, earliest_affected_hint)
                  : shared_span(entry, nullptr);
  }
  const Time span = prefix
                        ? prefix_span(entry, &starts_scratch_,
                                      earliest_affected_hint)
                        : shared_span(entry, &starts_scratch_);
  // Engine order is arrival order; hand the caller starts under the
  // instance's own ids.
  starts_out->resize(starts_scratch_.size());
  const std::vector<JobId>& original = prepared_.original_ids();
  for (std::size_t k = 0; k < starts_scratch_.size(); ++k) {
    (*starts_out)[original[k]] = starts_scratch_[k];
  }
  return span;
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
