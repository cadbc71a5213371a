#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>

namespace fjs::bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_now_ns(bool whole_process) {
  timespec ts{};
  clock_gettime(whole_process ? CLOCK_PROCESS_CPUTIME_ID
                              : CLOCK_THREAD_CPUTIME_ID,
                &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double ms_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}

namespace {

/// The process's affinity mask as first seen (before any pinning).
const cpu_set_t& startup_mask() {
  static const cpu_set_t mask = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) == 0) {
      for (unsigned c = 0; c < std::thread::hardware_concurrency(); ++c) {
        CPU_SET(c, &set);
      }
    }
    return set;
  }();
  return mask;
}

}  // namespace

std::size_t available_cpus() {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(CPU_COUNT(&startup_mask())));
}

void pin_calling_thread(long k) {
  const cpu_set_t& mask = startup_mask();
  if (k < 0) {
    sched_setaffinity(0, sizeof(mask), &mask);
    return;
  }
  long target = k % static_cast<long>(available_cpus());
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask) && target-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

std::size_t pool_workers() {
  return std::max<std::size_t>(1, available_cpus() - 1);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Outcome::check_failed(const std::string& what) {
  constexpr int kMaxPrinted = 20;
  static int printed = 0;
  if (printed++ < kMaxPrinted) {
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
  correct = false;
}

bool Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    check_failed(what);
  }
  return ok;
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

// ---------------------------------------------------------------------------

namespace {

struct SpanBuffer {
  std::mutex mutex;
  std::vector<Span> spans;
  std::uint32_t thread = 0;
};

struct SpanRegistry {
  std::mutex mutex;
  // Buffers live for the process: pool threads exit between set-up rounds
  // and their spans must still be collectable.
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
};

SpanRegistry& registry() {
  static SpanRegistry reg;
  return reg;
}

SpanBuffer& thread_buffer() {
  thread_local SpanBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    SpanRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<SpanBuffer>());
    buffer = reg.buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(reg.buffers.size() - 1);
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

void record_span(const Span& span) {
  SpanBuffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> collect_spans() {
  std::vector<Span> out;
  SpanRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

double uncovered_ms(const std::vector<Span>& spans, std::uint16_t outer,
                    std::uint16_t inner) {
  // Union of the inner intervals as sorted, disjoint segments.
  std::vector<std::pair<std::int64_t, std::int64_t>> parts;
  for (const Span& s : spans) {
    if (s.name == inner) {
      parts.emplace_back(s.t0, s.t1);
    }
  }
  std::sort(parts.begin(), parts.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& p : parts) {
    if (!merged.empty() && p.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, p.second);
    } else {
      merged.push_back(p);
    }
  }
  std::int64_t uncovered = 0;
  for (const Span& s : spans) {
    if (s.name != outer) {
      continue;
    }
    std::int64_t covered = 0;
    auto it = std::lower_bound(
        merged.begin(), merged.end(), s.t0,
        [](const auto& seg, std::int64_t t) { return seg.second <= t; });
    for (; it != merged.end() && it->first < s.t1; ++it) {
      covered += std::min(it->second, s.t1) - std::max(it->first, s.t0);
    }
    uncovered += (s.t1 - s.t0) - covered;
  }
  return static_cast<double>(uncovered) / 1e6;
}

std::optional<std::uint64_t> CounterDelta::get(const std::string& name) const {
  if (!telemetry::enabled()) {
    return std::nullopt;
  }
  for (const auto& c : delta_.counters) {
    if (c.name == name) {
      return c.value;
    }
  }
  // Registered counters always appear in a snapshot; a missing name means
  // the library no longer has that counter.
  return std::nullopt;
}

// ---------------------------------------------------------------------------

namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metric set, in output order (BENCHMARK.json lists the same
// names). Layers: support, workload, sim (with schedulers), offline,
// adversary, analysis, experiments.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"offline.heuristic_ms", "ms"},
    {"offline.lower_bound_ms", "ms"},
    {"offline.precut_us", "us"},
    {"offline.exact_us", "us"},
    {"offline.exact_nodes", "count"},
    {"offline.exact_calls", "count"},
    {"offline.floor_proven_frac", "frac"},
    {"offline.budget_exceeded", "count"},
    {"sim.replay_ms.eager", "ms"},
    {"sim.replay_ms.lazy", "ms"},
    {"sim.replay_ms.random", "ms"},
    {"sim.replay_ms.batch", "ms"},
    {"sim.replay_ms.batch_plus", "ms"},
    {"sim.replay_ms.cdb", "ms"},
    {"sim.replay_ms.profit", "ms"},
    {"sim.replay_ms.doubler", "ms"},
    {"sim.replay_ms.overlap", "ms"},
    {"sim.prepare_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.run_span_us", "us"},
    {"sim.prefix_hit_frac", "frac"},
    {"sim.prefix_events_skipped_frac", "frac"},
    {"sim.checkpoints_captured", "count"},
    {"sim.checkpoints_resumed", "count"},
    {"adversary.miner_self_ms", "ms"},
    {"adversary.memo_hit_frac", "frac"},
    {"adversary.precut_settle_frac", "frac"},
    {"adversary.screen_reject_frac", "frac"},
    {"support.pool.task_wait_ms", "ms"},
    {"support.pool.busy_frac", "frac"},
    {"support.pool.steals", "count"},
    {"support.pool.helping_wait_iterations", "count"},
    {"support.simd.lanes_used", "count"},
    {"analysis.sweep_self_ms", "ms"},
    {"experiments.e1_ms", "ms"},
    {"experiments.e2_ms", "ms"},
    {"experiments.e3_ms", "ms"},
    {"experiments.e4_ms", "ms"},
    {"experiments.e5_ms", "ms"},
    {"experiments.e6_ms", "ms"},
    {"experiments.e7_ms", "ms"},
    {"experiments.e8_ms", "ms"},
    {"experiments.e10_ms", "ms"},
    {"experiments.e11_ms", "ms"},
    {"experiments.e12_ms", "ms"},
    {"experiments.e13_ms", "ms"},
    {"experiments.e14_ms", "ms"},
    {"experiments.e15_ms", "ms"},
    {"experiments.e16_ms", "ms"},
    {"experiments.verdicts", "count"},
    {"workload.generate_ms", "ms"},
    {"trace_overhead_frac", "frac"},
    {"rss_growth_mb_per_cycle", "MB"},
};

double ratio_or_zero(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

std::string metric_key(const std::string& scheduler_key) {
  std::string out;
  for (const char c : scheduler_key) {
    if (c == '+') {
      out += "_plus";
    } else if (c != '*') {
      out += c;
    }
  }
  return out;
}

void add_layer_defaults(Outcome& out) {
  for (const auto& spec : kLayerMetrics) {
    out.add(spec.name, 0.0, spec.unit);
  }
}

void set_metric(Outcome& out, const std::string& name, double value) {
  for (Metric& m : out.metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  out.check_failed("internal: unknown metric " + name);
}

void drop_metric(Outcome& out, const std::string& name) {
  std::erase_if(out.metrics, [&](const Metric& m) { return m.name == name; });
}

void counter_metrics(const CounterDelta& counters, std::size_t units,
                     Outcome& out) {
  const auto per_unit = [&](const char* counter, const char* metric) {
    if (const auto v = counters.get(counter)) {
      set_metric(out, metric,
                 static_cast<double>(*v) / static_cast<double>(units));
    } else {
      drop_metric(out, metric);
    }
  };
  per_unit("engine.events", "sim.events");
  per_unit("engine.checkpoints_captured", "sim.checkpoints_captured");
  per_unit("engine.checkpoints_resumed", "sim.checkpoints_resumed");
  per_unit("pool.steals", "support.pool.steals");
  per_unit("pool.helping_wait_iterations",
           "support.pool.helping_wait_iterations");
  per_unit("simd.lanes_used", "support.simd.lanes_used");

  const auto hits = counters.get("portfolio.prefix_hits");
  const auto misses = counters.get("portfolio.prefix_misses");
  if (hits && misses) {
    set_metric(out, "sim.prefix_hit_frac",
               ratio_or_zero(static_cast<double>(*hits),
                             static_cast<double>(*hits + *misses)));
  } else {
    drop_metric(out, "sim.prefix_hit_frac");
  }
  const auto skipped = counters.get("portfolio.prefix_events_skipped");
  const auto events = counters.get("engine.events");
  if (skipped && events) {
    set_metric(out, "sim.prefix_events_skipped_frac",
               ratio_or_zero(static_cast<double>(*skipped),
                             static_cast<double>(*skipped + *events)));
  } else {
    drop_metric(out, "sim.prefix_events_skipped_frac");
  }
  // The miner counts objective calls ("miner.evaluations"), memo hits and
  // screen rejects separately; their sum is every candidate evaluation.
  const auto calls = counters.get("miner.evaluations");
  const auto memo = counters.get("miner.memo_hits");
  const auto screened = counters.get("miner.screen_rejects");
  if (calls && memo && screened) {
    const auto all = static_cast<double>(*calls + *memo + *screened);
    set_metric(out, "adversary.memo_hit_frac",
               ratio_or_zero(static_cast<double>(*memo), all));
    set_metric(out, "adversary.screen_reject_frac",
               ratio_or_zero(static_cast<double>(*screened), all));
  } else {
    drop_metric(out, "adversary.memo_hit_frac");
    drop_metric(out, "adversary.screen_reject_frac");
  }
}

double span_total_ms(const std::vector<Span>& spans, std::uint16_t name,
                     std::size_t* count) {
  std::int64_t total = 0;
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (s.name == name) {
      total += s.t1 - s.t0;
      ++n;
    }
  }
  if (count != nullptr) {
    *count = n;
  }
  return static_cast<double>(total) / 1e6;
}

}  // namespace fjs::bench
