// fjs_perfbench: the libfjs benchmark executable.
//
//   fjs_perfbench --workload {sweep|mine|replay|reproduce} --seed N
//                 --seconds S --trace {0|1} [--scratch DIR] [--commit ID]
//
// One process, one caller, a closed loop: set-up (inputs, pools, warm-up;
// repeated kSetupRounds times, the median is setup_s), then reference
// results for the output checks, then whole cycles of timed units until S
// seconds have passed. Set-up and units are timed in CPU time, which on a
// guest kernel with steal accounting leaves out the time the hypervisor
// gave to other tenants; wall times are printed alongside. --trace 0
// reports the end-to-end metrics; --trace 1
// spends half of S untraced and half re-issuing the same public calls with
// spans around them, and reports the per-layer metrics plus the tracing
// overhead. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage or set-up error (no result line then).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace fjs::bench {
namespace {

constexpr int kSetupRounds = 5;
/// peak_rss_mb covers the first cycle, or this many units if more.
constexpr std::size_t kRssWindowUnits = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fjs_perfbench: " << why
            << "\nusage: fjs_perfbench --workload {sweep|mine|replay|"
               "reproduce} --seed N --seconds S --trace {0|1} "
               "[--scratch DIR] [--commit ID]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 3600) {
        usage("--seconds must be in [1, 3600]");
      }
      args.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace expects 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunConfig& config) {
  if (name == "sweep") return make_sweep(config);
  if (name == "mine") return make_mine(config);
  if (name == "replay") return make_replay(config);
  if (name == "reproduce") return make_reproduce(config);
  usage("unknown workload '" + name + "'");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-trip rendering: every digit the measurement has.
std::string json_number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

std::string provenance_json(const Args& args) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"seconds\": " << args.seconds
     << ", \"nproc\": " << available_cpus()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"pool_workers\": " << pool_workers()
     << ", \"build_type\": " << json_string(FJS_BENCH_BUILD_TYPE)
     << ", \"FJS_SIMD\": " << FJS_BENCH_SIMD
     << ", \"FJS_TELEMETRY\": " << FJS_BENCH_TELEMETRY
     << ", \"FJS_COUNT_ALLOCS\": " << FJS_BENCH_COUNT_ALLOCS
     << ", \"compiler\": " << json_string(FJS_BENCH_COMPILER)
     << ", \"commit\": " << json_string(args.commit) << "}";
  return os.str();
}

/// Resident set size now, in MB (0 when /proc is unavailable).
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0.0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0
                : 0.0;
}

/// Host CPU ticks (all states) and the part stolen by the hypervisor, from
/// /proc/stat; zeros when unavailable.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

struct LoopResult {
  /// Wall time of each unit.
  std::vector<double> unit_ms;
  /// CPU time of each unit: the calling thread's for single-threaded
  /// workloads, every thread's for the others.
  std::vector<double> unit_cpu_ms;
  double items = 0.0;
  /// Sums of the unit times: the time the loop spent working.
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Largest resident set seen after a unit of the first cycle (or of the
  /// first kRssWindowUnits units): the workload's own peak over a fixed
  /// amount of work, without the reference runs the output checks needed.
  /// (A fixed amount, because the resident set of some workloads keeps
  /// growing cycle after cycle, and a time-bounded window would tie this
  /// metric to the loop's speed.)
  double peak_rss_mb = 0.0;
  std::size_t rss_window = 0;
  /// Resident-set growth per cycle after the first (0 with one cycle).
  double rss_growth_mb_per_cycle = 0.0;
  /// Share of host CPU time stolen by the hypervisor during the loop: a
  /// noisy-neighbour indicator for reading the timings, not a metric.
  double steal_frac = 0.0;

  double unit_p50_cpu_ms() const { return percentile(unit_cpu_ms, 50.0); }
  double items_per_cpu_s() const { return items / cpu_seconds; }
};

/// Runs whole cycles of units until `seconds` have passed.
LoopResult timed_loop(Workload& w, double seconds, bool traced,
                      Outcome& out) {
  LoopResult res;
  const std::size_t cycle = w.cycle_units();
  res.rss_window = std::max(cycle, kRssWindowUnits);
  const CpuTicks ticks0 = cpu_ticks();
  const std::int64_t start = now_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<double> cycle_end_rss;
  do {
    for (std::size_t i = 0; i < cycle; ++i) {
      if (w.single_threaded()) {
        // Each CPU of a shared host runs at its own speed (other tenants
        // on its core); a thread left on one CPU makes the whole run as
        // fast or slow as that CPU. Visiting every CPU in turn makes runs
        // agree.
        pin_calling_thread(static_cast<long>(res.unit_ms.size()));
      }
      const bool whole_process = !w.single_threaded();
      const std::int64_t c0 = cpu_now_ns(whole_process);
      const std::int64_t t0 = now_ns();
      try {
        res.items += traced ? w.run_traced_unit(i, out) : w.run_unit(i, out);
      } catch (const std::exception& e) {
        ++out.attempted;
        ++out.failed;
        out.check_failed(std::string("unit threw: ") + e.what());
      }
      const std::int64_t t1 = now_ns();
      const std::int64_t c1 = cpu_now_ns(whole_process);
      if (traced) {
        record_span(Span{kSpanUnit, static_cast<std::uint16_t>(i), 0, 0, t0,
                         t1});
      }
      res.unit_ms.push_back(ms_between(t0, t1));
      res.seconds += static_cast<double>(t1 - t0) / 1e9;
      res.unit_cpu_ms.push_back(ms_between(c0, c1));
      res.cpu_seconds += static_cast<double>(c1 - c0) / 1e9;
      if (res.unit_ms.size() <= res.rss_window) {
        res.peak_rss_mb = std::max(res.peak_rss_mb, rss_mb());
      }
    }
    cycle_end_rss.push_back(rss_mb());
  } while (now_ns() - start < limit);
  pin_calling_thread(-1);
  if (cycle_end_rss.size() > 1) {
    res.rss_growth_mb_per_cycle =
        (cycle_end_rss.back() - cycle_end_rss.front()) /
        static_cast<double>(cycle_end_rss.size() - 1);
  }
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total) {
    res.steal_frac = static_cast<double>(ticks1.steal - ticks0.steal) /
                     static_cast<double>(ticks1.total - ticks0.total);
  }
  return res;
}

void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::cout << "  " << name << " = " << json_number(value) << " " << unit
            << (note.empty() ? "" : "  (" + note + ")") << "\n";
}

/// --trace 0: the end-to-end metrics of the untraced loop.
void end_to_end(const Args& args, const std::vector<double>& setup_s,
                const std::vector<double>& setup_wall_s,
                const LoopResult& loop, Outcome& out) {
  const double setup = percentile(setup_s, 50.0);
  const double p50 = percentile(loop.unit_ms, 50.0);
  const double fail_frac = static_cast<double>(out.failed) /
                           static_cast<double>(out.attempted);
  out.add("setup_s", setup, "s");
  out.add("unit_p50_cpu_ms", loop.unit_p50_cpu_ms(), "ms");
  out.add("items_per_cpu_s", loop.items_per_cpu_s(), "1/s");
  out.add("pass_frac", 1.0 - fail_frac, "frac");
  out.add("peak_rss_mb", loop.peak_rss_mb, "MB");

  const auto list = [](const std::vector<double>& values) {
    std::string text;
    for (const double v : values) {
      text += (text.empty() ? "" : " ") + json_number(v);
    }
    return text;
  };
  const std::string n = "n=" + std::to_string(loop.unit_ms.size()) + " units";
  std::cout << "end-to-end (" << args.workload << ", seed " << args.seed
            << "):\n";
  print_metric("setup_s", setup, "s",
               "CPU time, median of " + std::to_string(kSetupRounds) +
                   " rounds: " + list(setup_s));
  print_metric("setup_wall_s", percentile(setup_wall_s, 50.0), "s",
               "wall time, median of the same rounds: " +
                   list(setup_wall_s));
  print_metric("unit_p50_cpu_ms", loop.unit_p50_cpu_ms(), "ms",
               "q1 " + json_number(percentile(loop.unit_cpu_ms, 25)) +
                   " q3 " + json_number(percentile(loop.unit_cpu_ms, 75)));
  print_metric("items_per_cpu_s", loop.items_per_cpu_s(), "1/s",
               json_number(loop.items) + " items in " +
                   json_number(loop.cpu_seconds) + " CPU s of units");
  print_metric("unit_p50_ms", p50, "ms",
               n + "; q1 " + json_number(percentile(loop.unit_ms, 25)) +
                   " q3 " + json_number(percentile(loop.unit_ms, 75)));
  // The highest percentile reported has at least 10 samples beyond it.
  if (loop.unit_ms.size() >= 100) {
    print_metric("unit_p90_ms", percentile(loop.unit_ms, 90.0), "ms", n);
  } else {
    std::cout << "  unit_p90_ms not reported (" << n
              << ": fewer than 10 beyond p90)\n";
  }
  print_metric("items_per_s", loop.items / loop.seconds, "1/s",
               json_number(loop.items) + " items in " +
                   json_number(loop.seconds) + " s of units");
  print_metric("fail_frac", fail_frac, "frac",
               std::to_string(out.failed) + " failed of " +
                   std::to_string(out.attempted) + " attempted");
  print_metric("pass_frac", 1.0 - fail_frac, "frac", "1 - fail_frac");
  print_metric("peak_rss_mb", loop.peak_rss_mb, "MB",
               "largest resident set over the first " +
                   std::to_string(loop.rss_window) +
                   " units; then " +
                   json_number(loop.rss_growth_mb_per_cycle) +
                   " MB more per cycle");
  std::cout << "  host steal during the timed loop: "
            << json_number(loop.steal_frac) << " of CPU time\n";
}

/// --trace 1: the per-layer metrics of a traced loop run after the
/// untraced one, and the tracing overhead between the two.
void per_layer(const Args& args, Workload& w, const LoopResult& plain,
               Outcome& out) {
  // The traced path keeps thread-local state of its own; warm it up.
  for (std::size_t i = 0; i < std::min<std::size_t>(w.cycle_units(), 8);
       ++i) {
    w.run_traced_unit(i, out);
  }
  collect_spans();
  CounterDelta counters;
  counters.begin();
  const LoopResult traced = timed_loop(w, args.seconds / 2, true, out);
  counters.end();
  add_layer_defaults(out);
  w.layer_metrics(collect_spans(), counters, traced.unit_ms.size(), out);
  // CPU time, so that time the hypervisor stole during one of the halves
  // does not show as tracing cost.
  const double p50 = plain.unit_p50_cpu_ms();
  const double traced_p50 = traced.unit_p50_cpu_ms();
  set_metric(out, "trace_overhead_frac", (traced_p50 - p50) / p50);
  set_metric(out, "rss_growth_mb_per_cycle", plain.rss_growth_mb_per_cycle);
  std::cout << "per-layer (" << args.workload << ", seed " << args.seed
            << ", " << traced.unit_ms.size() << " traced units, "
            << plain.unit_ms.size() << " untraced; unit_p50_cpu_ms "
            << json_number(traced_p50) << " traced vs " << json_number(p50)
            << " untraced):\n";
  for (const Metric& m : out.metrics) {
    print_metric(m.name, m.value, m.unit, "");
  }
}

std::string result_line(Outcome& out) {
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.check_failed("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i == 0 ? "" : ", ") << json_string(m.name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  json << "}}";
  return json.str();
}

int run(const Args& args, std::int64_t process_start) {
  const RunConfig config{args.seed, args.scratch};
  std::cout << "provenance " << provenance_json(args) << "\n";

  std::unique_ptr<Workload> w;
  // Set-up time is CPU time (every thread's), like the unit times; the
  // wall time is printed alongside.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  for (int round = 0; round < kSetupRounds; ++round) {
    w.reset();  // joins the previous round's pool outside the timing
    // Round 0 runs from process start, so it includes start-up as well;
    // the process CPU clock starts at zero.
    const std::int64_t t0 = round == 0 ? process_start : now_ns();
    const std::int64_t c0 = round == 0 ? 0 : cpu_now_ns(true);
    w = make_workload(args.workload, config);
    w->setup();
    setup_s.push_back(static_cast<double>(cpu_now_ns(true) - c0) / 1e9);
    setup_wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::cout << "inputs " << w->describe() << "\n";
  Outcome out;
  w->build_reference(out);
  // Hand the memory the reference runs freed back to the system, so the
  // resident set the timed loop samples is the workload's own.
  malloc_trim(0);

  const LoopResult plain =
      timed_loop(*w, args.trace ? args.seconds / 2 : args.seconds, false, out);
  if (out.attempted == 0) {
    out.check_failed("no operation was attempted");
    out.attempted = out.failed = 1;
  }
  if (args.trace) {
    per_layer(args, *w, plain, out);
  } else {
    end_to_end(args, setup_s, setup_wall_s, plain, out);
  }
  const std::string line = result_line(out);
  std::cout << line << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace fjs::bench

int main(int argc, char** argv) {
  const std::int64_t process_start = fjs::bench::now_ns();
  const fjs::bench::Args args = fjs::bench::parse_args(argc, argv);
  try {
    return fjs::bench::run(args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "fjs_perfbench: " << e.what() << "\n";
    return 2;
  }
}
