// Batched portfolio simulation kernel: evaluate one instance under many
// schedulers while paying the per-instance setup once.
//
// Every heavy consumer in the repo (the worst-case miner, the fuzz
// oracles, the ratio sweeps) asks "what does scheduler S do on instance
// I?" for several S per I. A plain simulate() call re-derives the arrival
// order, re-builds a StaticSource release vector, and allocates a fresh
// scheduler context for every run. The kernel instead *prepares* the
// instance once — job-record template plus the staged arrival FIFO, in
// exactly the order and seq numbering a StaticSource replay would produce
// — and replays the prepared timeline for each portfolio entry through
// Engine::preload_static. The replay is bit-identical to the classic path
// (same events, same seqs, same tie-breaking), which the portfolio
// determinism tests pin down.
//
// The span-only mode (run_spans/run_span) skips Instance/Schedule
// materialization entirely and, with a warm workspace, performs ZERO heap
// allocations per simulation — asserted under FJS_COUNT_ALLOCS (see
// support/alloc_counter.h and docs/PERF.md).
//
// Adaptive adversaries: a source or oracle factory in PortfolioOptions
// marks the instance as adaptive — the realized timeline then depends on
// the scheduler's own actions, so sharing a prepared timeline would be
// unsound. The runner detects this and automatically falls back to
// per-run sources/oracles (shared_timeline() reports which path ran).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "sim/engine.h"

namespace fjs {

/// One scheduler in the portfolio. Non-owning: the scheduler must outlive
/// the run and is reset() by the engine before each replay.
struct PortfolioEntry {
  OnlineScheduler* scheduler = nullptr;
  bool clairvoyant = false;
};

struct PortfolioOptions {
  /// Record a full event trace in full-result mode (ignored by span mode).
  bool record_trace = false;
  /// Adaptive-adversary gate: when either factory is set the prepared
  /// timeline is NOT shared; every entry gets a fresh source/oracle pair
  /// built by the factories (a missing factory falls back to
  /// StaticSource / NoDeferralOracle).
  std::function<std::unique_ptr<JobSource>(const Instance&)> source_factory;
  std::function<std::unique_ptr<LengthOracle>(const Instance&)> oracle_factory;

  bool adaptive() const {
    return static_cast<bool>(source_factory) ||
           static_cast<bool>(oracle_factory);
  }
};

/// An instance lowered to the engine's internal replay format: the
/// EngineJobRecord template and the staged arrival events a StaticSource
/// release stream would have produced (ids in arrival order, seq 0..n-1).
/// prepare() reuses internal storage, so a PreparedInstance that cycles
/// through many same-sized instances stops allocating.
class PreparedInstance {
 public:
  PreparedInstance() = default;

  /// Validates the jobs (same checks as Engine release) and rebuilds the
  /// replay buffers for `instance`.
  void prepare(const Instance& instance) { prepare(instance.view()); }

  /// Same lowering over a non-owning view (e.g. the miner's mutation
  /// scratch table) — no Instance is materialized. The view only needs to
  /// stay alive for this call; the replay buffers copy everything out.
  void prepare(InstanceView view);

  std::size_t size() const { return records_.size(); }
  const std::vector<detail::EngineJobRecord>& records() const {
    return records_;
  }
  const std::vector<Event>& staged() const { return staged_; }
  /// Maps engine job id (release order) back to the prepared instance's
  /// job id; identity when the instance was already arrival-sorted.
  const std::vector<JobId>& original_ids() const { return original_ids_; }

 private:
  std::vector<detail::EngineJobRecord> records_;
  std::vector<Event> staged_;
  std::vector<JobId> original_ids_;
  std::vector<JobId> sort_scratch_;  ///< arrival-sort ids, capacity reused
};

/// Span-only portfolio result (convenience-function form).
struct PortfolioSpanResult {
  std::vector<Time> spans;        ///< one per portfolio entry, same order
  bool shared_timeline = false;   ///< prepared fast path used (not adaptive)
};

/// Counters for the checkpointed prefix-replay cache (see
/// PortfolioRunner::enable_prefix_replay). A "hit" resumes a run from the
/// deepest valid checkpoint instead of replaying from t=0; a "miss" is a
/// prefix-eligible run that had to replay in full (no valid checkpoint for
/// the mutated timeline). Adaptive runs and disabled entries count as
/// neither.
struct PrefixReplayStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Staged arrivals NOT re-processed thanks to resumes (sum of the
  /// restored checkpoints' staged heads); hits > 0 implies > 0.
  std::size_t arrivals_skipped = 0;
  /// Total events (arrivals, deadlines, completions, timers) not
  /// re-processed thanks to resumes.
  std::size_t events_skipped = 0;
};

/// Replays one instance under a portfolio of schedulers. Holds the
/// prepared timeline, a leased engine workspace, and scratch buffers, so
/// a long-lived runner reaches a zero-allocation steady state in span
/// mode. Not thread-safe: use one runner per thread.
class PortfolioRunner {
 public:
  PortfolioRunner() : workspace_(engine_workspace_pool().acquire()) {}

  /// Span-only batch: spans_out[i] is entry i's span on `instance`.
  /// Returns true when the shared prepared timeline was used (always,
  /// unless options carry adaptive factories).
  bool run_spans(const Instance& instance,
                 std::span<const PortfolioEntry> entries,
                 std::vector<Time>& spans_out,
                 const PortfolioOptions& options = {});

  /// View form of the span batch. Shared-timeline only: the adaptive
  /// factories need an owning Instance, so options must not carry any.
  void run_spans(InstanceView view, std::span<const PortfolioEntry> entries,
                 std::vector<Time>& spans_out);

  /// Single-entry span fast path. If `starts_out` is non-null it is
  /// filled with the scheduler's chosen start times indexed by the
  /// instance's own job ids — the online schedule without materializing a
  /// Schedule. Requires the non-adaptive (shared-timeline) path.
  ///
  /// `earliest_affected_hint`: callers that know how this instance differs
  /// from the previous one handed to this runner (e.g. the miner's
  /// single-job mutations) may pass the earliest event time the change can
  /// influence; prefix replay takes the min of the hint and its own
  /// timeline diff when choosing the deepest valid checkpoint. Time::max()
  /// (the default) means "no extra knowledge".
  Time run_span(const Instance& instance, const PortfolioEntry& entry,
                std::vector<Time>* starts_out = nullptr,
                const PortfolioOptions& options = {},
                Time earliest_affected_hint = Time::max());

  /// View form of the single-entry span path (always shared-timeline).
  /// This is the miner's hot loop: a scratch JobTable is evaluated
  /// without materializing an Instance.
  Time run_span(InstanceView view, const PortfolioEntry& entry,
                std::vector<Time>* starts_out = nullptr,
                Time earliest_affected_hint = Time::max());

  /// Enables checkpointed prefix replay on the shared-timeline span path:
  /// each (scheduler, model) pair keeps up to `max_checkpoints` mid-run
  /// engine checkpoints strided across the last replayed timeline, and the
  /// next run over a similar timeline resumes from the deepest checkpoint
  /// whose prefix the change cannot affect (bit-identical to a full
  /// replay; pinned by the checkpoint differential tests/oracles). By
  /// default only clairvoyant entries participate; the miner-style static
  /// non-clairvoyant replay (NoDeferralOracle, preloaded timeline) is just
  /// as deterministic, so such callers opt in with
  /// `include_nonclairvoyant`. The adaptive-adversary gate disables prefix
  /// replay exactly like it disables timeline sharing. Requires scheduler
  /// objects that stay alive (and unreconfigured) across runs; a changed
  /// scheduler at the same address is detected by type+name and retires
  /// the stale checkpoints.
  void enable_prefix_replay(
      std::size_t max_checkpoints = EngineCheckpointSeries::kDefaultSlots,
      bool include_nonclairvoyant = false);

  /// Disables prefix replay and drops all lineages (stats are kept).
  void disable_prefix_replay();

  const PrefixReplayStats& prefix_stats() const { return prefix_stats_; }

  /// Cap on retained lineages. A runner cannot see a scheduler object die,
  /// so when a new (scheduler, model) pair arrives at the cap, the least
  /// recently used lineage is retired and its slot reused: callers that
  /// replace scheduler objects (the miner rebuilds one per mined key) keep
  /// a bounded cache. A batch with more pairs than this replays correctly
  /// but loses prefix hits.
  static constexpr std::size_t kMaxPrefixLineages = 32;

  /// Number of lineages currently retained (<= kMaxPrefixLineages).
  std::size_t prefix_lineage_count() const { return lineages_.size(); }

  /// Full-result mode: one SimulationResult per entry (realized instance,
  /// validated schedule, optional trace). Still amortizes the prepared
  /// timeline across entries on the non-adaptive path.
  std::vector<SimulationResult> run_full(
      const Instance& instance, std::span<const PortfolioEntry> entries,
      const PortfolioOptions& options = {});

 private:
  /// Checkpoint lineage: the last prepared timeline replayed for one
  /// (scheduler, model) pair plus the checkpoint series captured over it.
  /// type/name guard against a different scheduler reusing the address.
  struct PrefixLineage {
    const OnlineScheduler* scheduler = nullptr;
    bool clairvoyant = false;
    std::uint64_t last_use = 0;
    const std::type_info* type = nullptr;
    std::string name;
    bool has_base = false;
    std::vector<detail::EngineJobRecord> base_records;
    std::vector<Event> base_staged;
    EngineCheckpointSeries series;
  };

  Time shared_span(const PortfolioEntry& entry,
                   std::vector<Time>* starts_engine_order);
  Time adaptive_span(const Instance& instance, const PortfolioEntry& entry,
                     const PortfolioOptions& options);
  /// Shared-timeline span over the already-prepared timeline, resuming
  /// from the deepest valid checkpoint when one exists and recapturing the
  /// invalidated tail for the next run.
  Time prefix_span(const PortfolioEntry& entry,
                   std::vector<Time>* starts_engine_order,
                   Time earliest_affected_hint);
  bool prefix_eligible(const PortfolioEntry& entry) const {
    return prefix_enabled_ &&
           (entry.clairvoyant || prefix_nonclairvoyant_);
  }
  PrefixLineage& lineage_for(const PortfolioEntry& entry);

  PreparedInstance prepared_;
  std::vector<Time> starts_scratch_;
  EngineWorkspacePool::Lease workspace_;
  bool prefix_enabled_ = false;
  bool prefix_nonclairvoyant_ = false;
  std::size_t prefix_max_checkpoints_ = EngineCheckpointSeries::kDefaultSlots;
  std::vector<std::unique_ptr<PrefixLineage>> lineages_;
  std::uint64_t lineage_clock_ = 0;
  PrefixReplayStats prefix_stats_;
};

/// Convenience wrappers over a thread-local PortfolioRunner.
PortfolioSpanResult simulate_portfolio_spans(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options = {});
std::vector<SimulationResult> simulate_portfolio(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options = {});

}  // namespace fjs
