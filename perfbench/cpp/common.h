// Shared pieces of the libfjs benchmark: the workload interface, the
// timed loop's result, metric output, an in-benchmark span recorder and
// telemetry counter deltas.
//
// Spans are recorded only from the benchmark's own files, around calls
// into the library's public API; nothing inside the library is traced.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/telemetry.h"

namespace fjs::bench {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns();
/// CPU time consumed so far by the calling thread, or with
/// `whole_process` by every thread of the process, in ns. On a guest
/// kernel with paravirtual steal accounting this leaves out the time the
/// hypervisor ran other tenants on the CPU.
std::int64_t cpu_now_ns(bool whole_process);
double ms_between(std::int64_t t0_ns, std::int64_t t1_ns);

/// CPUs this process may run on (the affinity mask), at least 1.
std::size_t available_cpus();

/// Restricts the calling thread to the `k`-th CPU of the process's
/// affinity mask at start-up (k taken modulo their count), or, with k < 0,
/// gives it the whole mask back.
void pin_calling_thread(long k);

/// Worker count of every pool the benchmark creates: one less than the
/// available CPUs, because the calling thread helps inside wait().
std::size_t pool_workers();

/// Derives a 64-bit stream seed from the run seed and a stream index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolation percentile, q in [0, 100]; requires samples.
double percentile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: correctness, attempted/failed operations and the
/// metrics of the selected mode.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a failed output check (printed to stderr, first few only).
  void check_failed(const std::string& what);
  /// Checks `ok`; on failure records `what` and returns false.
  bool check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);
};

// ---------------------------------------------------------------------------
// Span recorder (traced runs only).

/// One recorded interval on some thread. `tag` and `value` carry a
/// workload-defined detail (scheduler index, node count, status, ...).
struct Span {
  std::uint16_t name = 0;
  std::uint16_t tag = 0;
  std::uint32_t thread = 0;
  std::uint64_t value = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Appends a span to the calling thread's buffer. Each buffer has its own
/// (uncontended) mutex, so collect() may read it from another thread.
void record_span(const Span& span);

/// Moves every thread's buffered spans out, in no particular order. Call
/// after the traced work has finished (e.g. after a pool wait()).
std::vector<Span> collect_spans();

/// RAII span: stamps t0 on construction and records on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint16_t name, std::uint16_t tag = 0)
      : span_{name, tag, 0, 0, now_ns(), 0} {}
  ~ScopedSpan() {
    span_.t1 = now_ns();
    record_span(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_value(std::uint64_t value) { span_.value = value; }
  void set_tag(std::uint16_t tag) { span_.tag = tag; }

 private:
  Span span_;
};

/// Total ms of the `outer` spans that no `inner` span (on any thread)
/// covers: a layer's self time when `inner` are its children.
double uncovered_ms(const std::vector<Span>& spans, std::uint16_t outer,
                    std::uint16_t inner);

// ---------------------------------------------------------------------------
// Telemetry counters, read in-process as u64.

/// Counter deltas over a bracketed region. Every lookup is empty when the
/// library was built with -DFJS_TELEMETRY=OFF, so counter-derived metrics
/// are reported as absent rather than as zero.
class CounterDelta {
 public:
  void begin() { begin_ = telemetry::capture(); }
  void end() { delta_ = telemetry::delta(begin_, telemetry::capture()); }
  std::optional<std::uint64_t> get(const std::string& name) const;

 private:
  telemetry::Snapshot begin_;
  telemetry::Snapshot delta_;
};

// ---------------------------------------------------------------------------
// Workload interface.

/// A benchmark workload. The main loop sets it up (timed as set-up), builds
/// the reference results its output checks compare against (untimed),
/// then runs units in whole cycles.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates inputs, starts pools and warms the library's thread-local
  /// runners and workspaces. Everything here counts toward setup_s. Set-up
  /// runs several times, the same work each time, on fresh objects.
  virtual void setup() = 0;
  /// Computes the reference results the output checks use.
  virtual void build_reference(Outcome& out) = 0;
  /// Units per whole cycle; timed loops always end on a cycle boundary so
  /// every run sees the same mix.
  virtual std::size_t cycle_units() const = 0;
  /// Runs unit `i` untraced, checks its output, and returns the number of
  /// items (the unit of items_per_s) it completed.
  virtual double run_unit(std::size_t i, Outcome& out) = 0;
  /// Runs unit `i` through the same public calls with spans around them;
  /// must produce bit-identical results (checked against the reference).
  virtual double run_traced_unit(std::size_t i, Outcome& out) = 0;
  /// Turns the spans and counter deltas of the traced loop into the
  /// per-layer metrics (every name of the per-layer set; 0 where this
  /// workload does not exercise the layer).
  virtual void layer_metrics(const std::vector<Span>& spans,
                             const CounterDelta& counters,
                             std::size_t units, Outcome& out) = 0;
  /// Human-readable description of the inputs (one line).
  virtual std::string describe() const = 0;
  /// True when a unit runs on the calling thread alone. The main loop then
  /// moves that thread to the next available CPU before every unit.
  virtual bool single_threaded() const { return false; }
};

struct RunConfig {
  std::uint64_t seed = 0;
  /// Directory the workload may write to (reproduce's run directories).
  std::string scratch_dir;
};

std::unique_ptr<Workload> make_sweep(const RunConfig& config);
std::unique_ptr<Workload> make_mine(const RunConfig& config);
std::unique_ptr<Workload> make_replay(const RunConfig& config);
std::unique_ptr<Workload> make_reproduce(const RunConfig& config);

// ---------------------------------------------------------------------------
// Per-layer metric helpers shared by the workloads.

/// Span names. Every workload uses the same ids so layer_metrics helpers
/// can aggregate across them.
enum SpanName : std::uint16_t {
  kSpanUnit = 1,         ///< one traced unit (main thread)
  kSpanTask,             ///< one pool task body (value = wait ns)
  kSpanHeuristic,        ///< offline heuristic_span
  kSpanLowerBound,       ///< offline best_lower_bound
  kSpanReplay,           ///< sim PortfolioRunner replay (tag = key index)
  kSpanObjective,        ///< one miner objective call
  kSpanPrecut,           ///< staged lower-bound pre-cut (value = settled)
  kSpanExact,            ///< exact_optimal (value = nodes, tag = status)
  kSpanExperiment,       ///< one experiment (tag = registry index)
};

/// The registry scheduler keys spelled for metric names ('+' and '*' are
/// not allowed there).
std::string metric_key(const std::string& scheduler_key);

/// Adds every per-layer metric name with value 0; workloads then
/// overwrite the ones they measure (set_metric keeps the order).
void add_layer_defaults(Outcome& out);
void set_metric(Outcome& out, const std::string& name, double value);
/// Removes a metric (counter-derived metrics in a telemetry-off build).
void drop_metric(Outcome& out, const std::string& name);

/// Fills the counter-derived metrics every workload shares (sim events,
/// checkpoints, prefix cache, pool steals/helping, SIMD lanes, miner
/// memo/screen fractions), per unit.
void counter_metrics(const CounterDelta& counters, std::size_t units,
                     Outcome& out);

/// Sum of durations of spans named `name`, in ms, and their count.
double span_total_ms(const std::vector<Span>& spans, std::uint16_t name,
                     std::size_t* count = nullptr);

}  // namespace fjs::bench
